"""End-to-end and per-layer benchmark of the ``survfuse`` CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is run from ``./src`` through
``launch.py``, one CLI call per process, one process at a time.

``--trace 0`` repeats the operation until the operations add up to
``--seconds`` seconds, at least three times. ``reference.py`` runs before the
first operation and after each one, and an operation's ``wall_per_ref`` is
its wall time over the mean wall time of the reference runs before and
after it; the run reports the median ``wall_per_ref``
and ``peak_rss_mb`` over its operations. The raw median ``wall_s`` is
printed and recorded too, but it drifts with the host's speed (see
``reference.py``), so it is not a bounded metric. The workload is set up
before the first operation and again between the following ones, several
times in all, and the median set-up time is ``setup_s``. ``--trace 1`` sets
up once with tracing on, repeats the operation untraced the same way, then
runs it once more traced and reports the per-layer figures of that traced
run (see ``tracer.py``).

Every operation's outputs are checked (``workloads.py``) and digested with
sha256; an operation fails when a call exits non-zero, a check fails, or
its digests differ from those of the first operation of the run. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Everything else, including the
digests, the exact CLI calls and the environment, goes to a results file
under ``benchmarks/.work/results/``; spans of a traced run go next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import tracer
from workloads import WORKLOADS, sha256_file

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH = os.path.join(HERE, "launch.py")
REFERENCE = os.path.join(HERE, "reference.py")
WORK = os.path.join(HERE, ".work")

# the whole benchmark must end within 180 s; leave room for writing results
TIME_LIMIT_S = 165.0
MIN_OPERATIONS = 3

END_TO_END = (
    ("wall_per_ref", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# per-layer metrics: "<layer>.<function>.<figure>" from the traced operation,
# except the byte counts, rows_per_s and the process.* figures (see per_layer)
PER_LAYER = (
    ("metrics.c_index.calls", "count"),
    ("metrics.c_index.self_s", "s"),
    ("metrics.c_index.failed", "count"),
    ("metrics.bootstrap_ci.calls", "count"),
    ("metrics.bootstrap_ci.total_s", "s"),
    ("analysis.compare_to_pesi.total_s", "s"),
    ("metrics.km_curve.total_s", "s"),
    ("metrics.logrank_test.total_s", "s"),
    ("metrics.nri.total_s", "s"),
    ("metrics.wilcoxon_signed_rank.total_s", "s"),
    ("rsf.fit_forest.total_s", "s"),
    ("cox_linear.partial_loglik_eta.calls", "count"),
    ("cox_linear.partial_loglik_eta.self_s", "s"),
    ("cox_linear.fit_cox.total_s", "s"),
    ("deep_survival.train.total_s", "s"),
    ("deep_survival.loss_and_gradients.calls", "count"),
    ("deep_survival.loss_and_gradients.self_s", "s"),
    ("deep_survival.forward.calls", "count"),
    ("deep_survival.forward.self_s", "s"),
    ("dataset.label_arrays.calls", "count"),
    ("dataset.label_arrays.self_s", "s"),
    ("analysis.run_study_full.self_s", "s"),
    ("dataset.split_dataset.total_s", "s"),
    ("dataset.impute_missing.total_s", "s"),
    ("dataset.clinical_matrix.total_s", "s"),
    ("dataset.ingest_clinical.total_s", "s"),
    ("dataset.attach_imaging.total_s", "s"),
    ("dataset.apply_imputation.total_s", "s"),
    ("dataset.input_bytes", "bytes"),
    ("pesi.pesi_score.calls", "count"),
    ("pesi.pesi_score.total_s", "s"),
    ("cli.cmd_score.self_s", "s"),
    ("rsf.predict_risk.total_s", "s"),
    ("rsf.predict_risk.rows_per_s", "rows/s"),
    ("fusion.predict_fused.total_s", "s"),
    ("artifacts.load_model.total_s", "s"),
    ("artifacts.load_model.bytes", "bytes"),
    ("artifacts.save_model.total_s", "s"),
    ("artifacts.save_model.bytes", "bytes"),
    ("fusion.fit_fusion.total_s", "s"),
    ("svg.render_km_svg.total_s", "s"),
    ("cli.cmd_run.self_s", "s"),
    ("synthetic.write_study_csvs.total_s", "s"),
    ("process.cpu_s", "s"),
    ("process.wall_s", "s"),
    ("process.reference_s", "s"),
    ("process.trace_overhead_s", "s"),
)

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Call:
    args: list[str]
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    spans: str | None = None


@dataclass
class Operation:
    calls: list[Call]
    problems: list[str]
    digests: dict[str, str] = field(default_factory=dict)
    reference_s: float | None = None  # mean of the reference runs before and after it

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)

    @property
    def wall_per_ref(self) -> float:
        return self.wall_s / self.reference_s

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.calls)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.peak_rss_mb for c in self.calls)


class SetupError(RuntimeError):
    """A set-up call failed, so there is nothing to measure."""


class Runner:
    """Runs CLI calls for one workload at one seed, inside ``work``."""

    def __init__(self, root: str, work: str, deadline: float):
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = work
        self.deadline = deadline
        self.log = os.path.join(work, "stderr.log")

    def rel(self, path: str) -> str:
        return os.path.relpath(path, self.root)

    def call(self, args: list[str], spans: str | None = None) -> Call:
        cmd = [sys.executable, LAUNCH, "--src", self.src]
        if spans is not None:
            cmd += ["--spans", spans]
        return self.spawn(cmd + ["--", *args], args, spans)

    def reference(self) -> float:
        """Wall time of one run of ``reference.py``."""
        call = self.spawn([sys.executable, REFERENCE], ["reference.py"])
        if call.returncode != 0:
            raise SetupError(f"reference.py exited {call.returncode}; see {self.rel(self.log)}")
        return call.wall_s

    def spawn(self, cmd: list[str], args: list[str], spans: str | None = None) -> Call:
        with open(self.log, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Call(args=[self.rel(a) if os.path.isabs(a) else a for a in args],
                    returncode=proc.returncode, wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    peak_rss_mb=usage.ru_maxrss / 1024.0, spans=spans)

    def setup(self, plan, spans_prefix: str | None = None) -> list[Call]:
        calls = []
        for i, args in enumerate(plan.setup):
            spans = None if spans_prefix is None else f"{spans_prefix}-setup{i}.jsonl"
            calls.append(self.call(args, spans))
            if calls[-1].returncode != 0:
                raise SetupError(f"set-up call {' '.join(calls[-1].args)} exited "
                                 f"{calls[-1].returncode}; see {self.rel(self.log)}")
        return calls

    def operation(self, workload, plan, first: Operation | None,
                  spans_prefix: str | None = None) -> Operation:
        shutil.rmtree(plan.out_dir, ignore_errors=True)
        os.makedirs(plan.out_dir)
        calls = []
        for i, args in enumerate(plan.operation):
            spans = None if spans_prefix is None else f"{spans_prefix}-op{i}.jsonl"
            calls.append(self.call(args, spans))
        problems = [f"{c.args[0]} exited {c.returncode}" for c in calls if c.returncode != 0]
        if problems:
            return Operation(calls, problems)
        try:
            problems = workload.check(self.work)
            digests = {self.rel(p): sha256_file(p) for p in workload.outputs(self.work)}
        except Exception as exc:  # malformed output is a failed operation, not a crash
            return Operation(calls, [f"outputs unreadable: {exc!r}"])
        if first is not None and first.digests and digests != first.digests:
            problems.append("output digests differ from the first operation of this run")
        return Operation(calls, problems, digests)


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _flag_values(args_list, flag: str) -> list[str]:
    return [args[i + 1] for args in args_list for i, a in enumerate(args[:-1]) if a == flag]


def per_layer(plan, setup: list[Call], untraced: list[Operation],
              traced: Operation) -> tuple[dict, dict, dict]:
    """Per-layer metrics, the full traced table, and c_index calls by caller."""
    op_spans = [tracer.read_spans(c.spans) for c in traced.calls]
    table = tracer.merge_tables([tracer.layer_table(s) for s in op_spans])
    setup_table = tracer.merge_tables(
        [tracer.layer_table(tracer.read_spans(c.spans)) for c in setup])
    by_caller: dict[str, int] = {}
    for spans in op_spans:
        for caller, n in tracer.calls_by_parent(spans, "metrics.c_index").items():
            by_caller[caller] = by_caller.get(caller, 0) + n

    models_dir = os.path.join(plan.out_dir, "models")
    saved = [os.path.join(models_dir, f) for f in os.listdir(models_dir)] \
        if os.path.isdir(models_dir) else []
    predict = table.get("rsf.predict_risk", {})
    special = {
        "dataset.input_bytes": _file_bytes(_flag_values(plan.operation, "--clinical")
                                           + _flag_values(plan.operation, "--features")),
        "artifacts.load_model.bytes": _file_bytes(_flag_values(plan.operation, "--model")),
        "artifacts.save_model.bytes": _file_bytes(saved),
        "rsf.predict_risk.rows_per_s": (predict["rows"] / predict["total_s"]
                                        if predict.get("total_s") else 0.0),
        "synthetic.write_study_csvs.total_s":
            setup_table.get("synthetic.write_study_csvs", {}).get("total_s", 0.0),
        "process.cpu_s": statistics.median(op.cpu_s for op in untraced),
        "process.wall_s": statistics.median(op.wall_s for op in untraced),
        "process.reference_s": statistics.median(op.reference_s for op in untraced),
        "process.trace_overhead_s":
            traced.wall_s - statistics.median(op.wall_s for op in untraced),
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            function, figure = name.rsplit(".", 1)
            value = table.get(function, {}).get(figure, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, table, by_caller


def environment(root: str) -> dict:
    import numpy

    sha = None
    try:
        # only the repository rooted here counts, not one that happens to enclose it
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10).stdout.strip().partition("\n")
        if top and os.path.realpath(top) == os.path.realpath(root):
            sha = head
    except (OSError, subprocess.SubprocessError):
        pass
    src_files = sorted(
        os.path.join(d, f) for d, _, fs in os.walk(os.path.join(root, "src", "survfuse"))
        for f in fs if f.endswith(".py"))
    src_digest = hashlib.sha256()
    for path in src_files:
        src_digest.update(f"{os.path.relpath(path, root)} {sha256_file(path)}\n".encode())
    try:
        found = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": found.get("name"), "version": found.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": sha,
        "src_sha256": src_digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in _THREAD_VARS if k in os.environ},
        "platform": platform.platform(),
    }


def _write_configs(plan) -> None:
    for path, cfg in plan.configs.items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, sort_keys=True)


def result_path(work_root: str, name: str, seed: int, trace: bool) -> str:
    """Where :func:`measure` writes the results of one run."""
    return os.path.join(work_root, "results", f"{name}-seed{seed}-trace{int(trace)}.json")


def measure(root: str, workload, seed: int, seconds: int, trace: bool,
            work_root: str = WORK) -> dict:
    """Set up and measure one workload; returns the result written to disk."""
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    name = workload.name
    work = os.path.join(work_root, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_file = result_path(work_root, name, seed, trace)
    os.makedirs(os.path.dirname(result_file), exist_ok=True)
    spans_prefix = result_file[:-len(".json")]

    runner = Runner(root, work, deadline)
    plan = workload.plan(work, seed)
    _write_configs(plan)

    # The set-up is repeated between operations rather than back to back, so
    # that its median samples the same stretch of machine time as theirs.
    setup_reps = 1 if trace else workload.setup_reps
    setups = [runner.setup(plan, spans_prefix if trace else None)]
    # The reference program runs before the first operation and after each
    # one, so every operation sits between two reference runs (a repeated
    # set-up runs between a reference run and the next operation).
    references = [runner.reference()]
    ops: list[Operation] = []
    while True:
        began = time.monotonic()
        ops.append(runner.operation(workload, plan, ops[0] if ops else None))
        references.append(runner.reference())
        ops[-1].reference_s = statistics.fmean(references[-2:])
        if len(ops) >= MIN_OPERATIONS and sum(op.wall_s for op in ops) >= seconds:
            break
        # leave time for one more operation (and the traced one) before the deadline
        if time.monotonic() + (time.monotonic() - began) * (2.5 if trace else 1.2) > deadline:
            break
        if len(setups) < setup_reps:
            setups.append(runner.setup(plan))
    while len(setups) < setup_reps:
        setups.append(runner.setup(plan))
    setup_s = statistics.median(sum(c.wall_s for c in calls) for calls in setups)
    traced = runner.operation(workload, plan, ops[0], spans_prefix) if trace else None
    every = ops + ([traced] if traced else [])
    failed = sum(1 for op in every if op.problems)

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(root),
        "cli": {"setup": [c.args for c in setups[0]], "operation": [c.args for c in ops[0].calls]},
        "configs": {runner.rel(p): cfg for p, cfg in plan.configs.items()},
        "setup_runs": [[c.wall_s for c in calls] for calls in setups],
        "operations": [
            {"traced": op is traced, "wall_s": op.wall_s, "reference_s": op.reference_s,
             "cpu_s": op.cpu_s, "peak_rss_mb": op.peak_rss_mb, "problems": op.problems,
             "calls": [{"args": c.args, "returncode": c.returncode, "wall_s": c.wall_s,
                        "cpu_s": c.cpu_s, "peak_rss_mb": c.peak_rss_mb} for c in op.calls]}
            for op in every
        ],
        "digests": ops[0].digests,
        "attempted": len(every),
        "failed": failed,
        "error_rate": failed / len(every),
        "correct": failed == 0,
        "wall_s": statistics.median(op.wall_s for op in ops),
    }
    if trace:
        metrics, table, by_caller = per_layer(plan, setups[0], ops, traced)
        result["per_layer_table"] = table
        result["c_index_calls_by_caller"] = by_caller
        result["spans"] = sorted(runner.rel(c.spans) for c in setups[0] + traced.calls)
    else:
        metrics = {
            "wall_per_ref": {"value": statistics.median(op.wall_per_ref for op in ops),
                             "unit": "ratio"},
            "peak_rss_mb": {"value": statistics.median(op.peak_rss_mb for op in ops),
                            "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result["metrics"] = metrics
    result["elapsed_s"] = time.monotonic() - started
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    result["path"] = runner.rel(result_file)
    return result


def print_summary(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}")
    for i, op in enumerate(result["operations"]):
        status = "ok" if not op["problems"] else "FAILED: " + "; ".join(op["problems"])
        kind = "traced" if op["traced"] else f"untraced, reference {op['reference_s']:.3f} s"
        print(f"  operation {i + 1} ({kind}): {op['wall_s']:.3f} s, "
              f"peak {op['peak_rss_mb']:.1f} MB, cpu {op['cpu_s']:.3f} s, {status}")
    for path, digest in sorted(result["digests"].items()):
        print(f"  sha256 {digest}  {path}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'wall_s':44s} {result['wall_s']:>14.6g} s (median of the untraced "
          f"operations; drifts with the host, so not bounded)")
    print(f"  {'error_rate':44s} {result['error_rate']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    if "c_index_calls_by_caller" in result:
        print(f"  metrics.c_index calls by caller: {result['c_index_calls_by_caller']}")
    print(f"  results: {result['path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2**63)")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "survfuse", "cli.py")):
        print("benchmark: ./src/survfuse not found; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        result = measure(root, WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print_summary(result)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
